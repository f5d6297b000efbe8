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
result rows are wrapped as they are.  Its forward pass (``_hnf_forward``)
keeps the unfinished rows in buckets by leading column, so a pivot step
touches only the rows led by its column; one back-substitution
(``_hnf_back``) then reduces each finished row by the rows below it,
visiting only the pivot columns the row holds.  No step scans every row.
The echelon rows are the dense Hermite algorithm's, and the Hermite form
of their span and its transform are unique, so ``(h, u, pivots)`` are
deterministic and equal to a dense reduction's.  The Smith form alternates that kernel
over the rows and the columns.  Products touch only nonzero entries.

Linear maps act on row vectors (v ↦ v·m).  A lattice reduces its basis
only as far as its readers need, each stage once: a forward pass with
its transform gives the echelon rows (for ``rank`` and membership, which
walks them by an index of their pivot columns), the
back-substitution of their pivot columns the Hermite pivot block (for a
witness), and their back-substitution without a transform the Hermite
form, the canonical form that comparison reads.
``kernel_basis(m)`` returns a plain basis of the left kernel
{v : v·m = 0}, read off the forward pass's transform.

``perp`` and ``quotient_presentation`` read one more cached stage,
``Lattice._unit_split``, which reduces less than the whole basis.  It
peels unit rows first, as structured Gaussian elimination does
(LaMacchia–Odlyzko, CRYPTO '90): a row ±e_c records c in D and is
subtracted from every other row holding c, which deletes c there; a row
left as ±e_d is peeled next, and a row left empty is dropped.  These are
row operations, so the span is L = Z^D ⊕ L′ with L′ the span of what is
left on the columns C′ = [0, n) ∖ D.  Hence L⊥ = 0 ⊕ L′⊥ and
Zⁿ/L ≅ Z^{C′}/L′: the orthogonal complement is L′'s spread back over C′
by zeros, rank L = |D| + rank L′, and L is saturated iff L′ is.  Only L′
is reduced (612 × 572 rows and columns of R3 on C13 leave 147 × 187 at
the relabeling seed 41), and only the scalars and the complement are kept.
A lattice with no unit row is its own L′: it pays one scan, and its
stages are the ones every other reader shares.  The orthogonal
complement of L′ is read off its canonical form when every Hermite pivot
is 1, and is otherwise the left kernel of that form's transpose.

Membership reduces a vector's sparse residue (a dense vector
or a ``{column: entry}`` dict) by the echelon rows whose pivots it holds,
met in column order from a heap of those pivots.
A failure's witness functional depends only on the failing pivot row or
rational column, so it is solved once per such key and cached with the
stages; a warm failed query pairs it with the vector over its support.

A vector known to lie on a set of columns C needs only part of a basis:
a row that is the only one left with an entry at a column outside C has
coefficient 0 in every element of the lattice on C, so such rows are
peeled in a cascade (``_peel_owned_rows``, the column mirror of the
unit-row peel below) and only the rest need be reduced; ``lcs`` does so
for Im δ̄ (``lcs.SupportCore``).

``quotient_presentation`` presents a quotient ``ZZ^n / lattice`` from
the lattice alone: the projection is Kᵀ for K the canonical form of
``perp(lattice)``.  When K's pivots are all 1 its pivot columns are
identity columns, so the unit rows at them are a section and nothing is
reduced (as in ``perp``); any other K takes the section from the
transform of one ``hnf_with_transform(Kᵀ)``.  Unit pivots of the
lattice's Hermite form (L′'s, which are L's) prove it saturated; any
other lattice takes the Smith divisors of its own canonical form, which
are all 1 exactly when it is saturated and otherwise name the torsion.
So P2, P3 and every presentation equal those of reducing the whole basis.
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


def used_columns(rows: Sequence[dict[int, int]]) -> tuple[tuple[int, ...], tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]:
    """``(cols, support)``: the columns that sparse rows use, increasing, and each nonzero row i as (i, its (position in cols, entry) pairs).

    A product v·m summed over ``support`` fills a list of ``len(cols)`` and
    maps back to m's columns once, through ``cols``.
    """
    cols = sorted(set().union(*rows))
    at = {c: j for j, c in enumerate(cols)}
    return tuple(cols), tuple((i, tuple((at[c], x) for c, x in row.items())) for i, row in enumerate(rows) if row)


def combine(terms: Iterable[tuple[int, int]], m: IntMatrix) -> dict[int, int]:
    """Σ x·(row k of m) over the pairs (k, x) in ``terms``, as a sparse row."""
    out: dict[int, int] = {}
    rows = m.sparse_rows
    for k, x in terms:
        for j, y in rows[k].items():
            out[j] = out.get(j, 0) + x * y
    return {j: z for j, z in out.items() if z}


# -- row operation helpers ------------------------------------------------


def _sparse_sub(ri: dict[int, int], rj: dict[int, int], q: int) -> None:
    """``ri -= q·rj`` in place on sparse rows; entries that cancel are dropped."""
    for k, y in rj.items():
        x = ri.get(k, 0) - q * y
        if x:
            ri[k] = x
        else:
            del ri[k]


def _hnf_forward(a: list[dict[int, int]], ncols: int, u: list[dict[int, int]] | None) -> list[int]:
    """Bring sparse rows ``{column: entry}`` to echelon form in place, mirroring ops on ``u``; return the pivot columns.

    This is the forward pass of every reduction.  Per column, the pivot
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
    return pivots


def _hnf_back(a: list[dict[int, int]], pivots: list[int], u: list[dict[int, int]] | None) -> list[int]:
    """Finish the row HNF of ``_hnf_forward``'s echelon rows in place, mirroring ops on ``u``; return ``pivots``.

    One back-substitution reduces the entries above each pivot into
    ``[0, pivot)``, from the last finished row up.  Row i walks its entries
    at pivot columns right of its own pivot in increasing column order,
    from a heap of those columns, and at column c_j subtracts
    ⌊a[i][c_j] / p_j⌋ times row j, already reduced; the pivot columns of
    row j that the subtraction brings into row i join the heap.  Row j is
    zero left of c_j, so later steps leave column c_j alone.

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
    """
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


def _peel_unit_rows(rows: Sequence[dict[int, int]], ncols: int) -> tuple[list[int] | None, list[dict[int, int]]]:
    """``(kept, rest)``: the columns C′ that no cascade of unit rows ±e_c removes, and the other rows cut to C′ and renumbered along it.

    A row ±e_c is taken, c is recorded in D and deleted from every other
    row, which is the row operation subtracting a multiple of ±e_c; a row
    left as ±e_d is taken next, and a row left empty is dropped.  So the
    span is Z^D ⊕ L′ for L′ the span of ``rest``.  A row only loses
    entries, so D is the same in any order.  Only the other rows are
    indexed by column, and each counts its entries outside D instead of
    losing them.  With no unit row ``kept`` is None and nothing is built.
    """
    todo, other = [], []  # the columns of the unit rows, and the other nonzero rows
    for row in rows:
        if len(row) == 1:
            ((c, x),) = row.items()
            if x == 1 or x == -1:
                todo.append(c)
                continue
        if row:
            other.append(row)
    if not todo:
        return None, []
    on: dict[int, list[int]] = {}  # the other rows through each column
    for j, row in enumerate(other):
        for c in row:
            if c in on:
                on[c].append(j)
            else:
                on[c] = [j]
    left, peeled = [len(row) for row in other], set()
    while todo:
        c = todo.pop()
        if c in peeled:  # a second ±e_c
            continue
        peeled.add(c)
        for j in on.get(c, ()):
            left[j] -= 1
            if left[j] == 1:  # the row is x·e_d for its one column d outside D
                for d, x in other[j].items():
                    if d not in peeled:
                        if x == 1 or x == -1:
                            todo.append(d)
                        break
    kept = [c for c in range(ncols) if c not in peeled]
    at = {c: k for k, c in enumerate(kept)}
    return kept, [{at[c]: x for c, x in row.items() if c not in peeled} for row, k in zip(other, left) if k]


def _peel_owned_rows(rows: Sequence[dict[int, int]], inside: set[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """``(core, peeled)``: the nonzero rows that no cascade of owned columns removes, and each removed row with its own column, in peel order.

    The column mirror of ``_peel_unit_rows``.  A row owns a column c
    outside ``inside`` when it is the only remaining row with an entry at
    c; it is peeled with c as its own column, and a column it leaves with
    one remaining row is peeled next.  Each column outside ``inside``
    counts its remaining rows and sums their indices, so a count of 1
    names the owner.  A row that owns a column still owns it once other
    rows leave, so the peeled rows are the same in any order; the order
    fixes only which owned column is a row's own.
    """
    on: dict[int, list[int]] = {}  # each column outside ``inside``: [remaining rows, sum of their indices]
    for j, row in enumerate(rows):
        for c in row:
            if c not in inside:
                if c in on:
                    e = on[c]
                    e[0] += 1
                    e[1] += j
                else:
                    on[c] = [1, j]
    todo, peeled, gone = [c for c, (k, _) in on.items() if k == 1], [], set()
    while todo:
        c = todo.pop()
        k, j = on[c]
        if k != 1:  # its owner left at another column
            continue
        peeled.append((j, c))
        gone.add(j)
        for d in rows[j]:
            if d in on:
                e = on[d]
                e[0] -= 1
                e[1] -= j
                if e[0] == 1:
                    todo.append(d)
    return [j for j, row in enumerate(rows) if row and j not in gone], peeled


def hnf(m: IntMatrix) -> IntMatrix:
    """Row Hermite normal form with zero rows dropped (canonical)."""
    a = [dict(row) for row in m.sparse_rows]
    pivots = _hnf_back(a, _hnf_forward(a, m.cols, None), None)
    return IntMatrix._of(a[: len(pivots)], m.cols)


def hnf_with_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, list[int]]:
    """Return ``(h, u, pivots)`` with ``u @ m`` equal to ``h`` stacked on zero rows.

    ``u`` is square unimodular of size ``m.rows``; ``h`` has the zero rows
    dropped, so ``len(pivots) == h.rows`` is the rank.
    """
    a, u = [dict(row) for row in m.sparse_rows], [{i: 1} for i in range(m.rows)]
    pivots = _hnf_back(a, _hnf_forward(a, m.cols, u), u)
    return IntMatrix._of(a[: len(pivots)], m.cols), IntMatrix._of(u, m.rows), pivots


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """A basis of the left kernel ``{v in ZZ^rows : v·m = 0}``; ``Lattice`` canonicalizes.

    The rows are the tail of the unimodular transform of the forward pass, which fixes it.
    """
    a, u = [dict(row) for row in m.sparse_rows], [{i: 1} for i in range(m.rows)]
    pivots = _hnf_forward(a, m.cols, u)
    return IntMatrix._of(u[len(pivots):], m.rows)


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
        _hnf_back(a, _hnf_forward(a, ncols, ops[side]), ops[side])
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

    Building one reduces nothing.  Each stage of the basis's reduction,
    ``echelon``, ``_pivot_rows`` (the echelon's pivot index, which holds
    no rows), ``_pivot_block`` and ``canonical_form``, the unit-row split
    ``_unit_split`` with ``perp``, and each witness functional of
    ``member`` are computed on first use and cached, so a reader pays
    only for the stages it reads; no stage back-substitutes a transform.
    """

    __slots__ = ("ambient_rank", "basis", "_cache")

    def __init__(self, ambient_rank: int, basis: IntMatrix | Iterable[Sequence[int]]):
        if not isinstance(basis, IntMatrix):
            basis = IntMatrix(basis, ambient_rank)
        if basis.cols != ambient_rank:
            raise ValueError("basis width does not match ambient rank")
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_cache", {})  # the stages by name, ``perp`` and the witness functionals

    def __setattr__(self, name, value):
        raise AttributeError("Lattice is immutable")

    def echelon(self):
        """The echelon stage ``(e, keep, pivots, det)``: one ``_hnf_forward`` of the basis, ``keep @ basis == e``.

        ``det``, the pivot product, is the Hermite form's too: back-substitution never changes a pivot.
        """
        if "echelon" not in self._cache:
            a, u = [dict(row) for row in self.basis.sparse_rows], [{i: 1} for i in range(self.basis.rows)]
            pivots = _hnf_forward(a, self.ambient_rank, u)
            r, det = len(pivots), math.prod(row[p] for row, p in zip(a, pivots))
            self._cache["echelon"] = IntMatrix._of(a[:r], self.ambient_rank), IntMatrix._of(u[:r], self.basis.rows), pivots, det
        return self._cache["echelon"]

    def _pivot_rows(self) -> dict[int, int]:
        """The index ``member`` walks by: each pivot column of the echelon stage → its echelon row."""
        if "pivot_rows" not in self._cache:
            self._cache["pivot_rows"] = {c: k for k, c in enumerate(self.echelon()[2])}
        return self._cache["pivot_rows"]

    def _pivot_block(self):
        """Per row of the Hermite form H, its ``(pivot index, entry)`` pairs at the other pivot columns.

        Each quotient of ``_hnf_back`` reads only pivot-column entries, so
        the echelon rows cut to the pivot columns back-substitute to H's.
        """
        if "block" not in self._cache:
            e, _, pivots, _ = self.echelon()
            pos = self._pivot_rows()
            rows = [{col: x for col, x in row.items() if col in pos} for row in e.sparse_rows]
            _hnf_back(rows, pivots, None)
            self._cache["block"] = tuple(tuple((pos[col], x) for col, x in row.items() if col != p) for row, p in zip(rows, pivots))
        return self._cache["block"]

    @property
    def canonical_form(self) -> IntMatrix:
        """The Hermite form: the echelon rows back-substituted without a transform."""
        if "canonical" not in self._cache:
            a = [dict(row) for row in self.echelon()[0].sparse_rows]
            _hnf_back(a, self.echelon()[2], None)
            self._cache["canonical"] = IntMatrix._of(a, self.ambient_rank)
        return self._cache["canonical"]

    def _unit_split(self):
        """The unit-row stage ``(rank, det, perp)``, read off L′ after peeling L = Z^D ⊕ L′ (``_peel_unit_rows``).

        ``det`` is L′'s echelon pivot product, which is L's: the Hermite
        form of L is its rows e_d for d ∈ D with L′'s spread back over C′.
        Only these scalars and ``perp`` are kept, never L′'s stages; a
        lattice with no unit row is its own L′ and keeps its stages.
        """
        if "split" not in self._cache:
            n, (kept, rows) = self.ambient_rank, _peel_unit_rows(self.basis.sparse_rows, self.ambient_rank)
            rest = self if kept is None else Lattice(len(kept), IntMatrix._of(rows, len(kept)))
            m, h, (_, _, pivots, det) = rest.ambient_rank, rest.canonical_form, rest.echelon()
            if det == 1:
                cols, free = _transpose(h.sparse_rows, m), sorted(set(range(m)).difference(pivots))
                basis = [{c: 1, **{pivots[k]: -x for k, x in cols[c].items()}} for c in free]
            else:
                basis = kernel_basis(h.transpose()).sparse_rows
            if kept is not None:
                basis = [{kept[c]: x for c, x in row.items()} for row in basis]
            self._cache["split"] = n - m + rest.rank, det, Lattice(n, IntMatrix._of(basis, n))
        return self._cache["split"]

    @property
    def rank(self) -> int:
        return len(self.echelon()[2])

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


@dataclass(frozen=True)
class Witness:
    """Functional separating a vector from a lattice.

    ``functional . w ≡ 0 (mod modulus)`` for every lattice element ``w``
    while ``functional . v`` is not.  ``modulus == 0`` means honest
    integer orthogonality: the functional kills the lattice exactly but
    not the vector, so the failure is already rational; such a functional
    is primitive (its entries have gcd 1).  From ``member`` a positive
    modulus divides the lattice's pivot product.  A witness read off the
    unpeeled rows of a basis (``lcs.SupportCore``) and extended along the
    peel divides their pivot product times the extension's factors: 6 on
    c8 and 36 on C13 for Im δ̄'s core, where all of Im δ̄ gives 12 and 144.
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


def member(v: Sequence[int] | dict[int, int], lat: Lattice) -> MembershipResult:
    """Decide ``v in lat``, ``v`` dense or a sparse ``{column: entry}`` dict; return combination coefficients or a witness.

    On success ``coefficients`` expresses ``v`` over ``lat.basis`` rows.
    On failure the witness has ``modulus == 0`` (rational failure) or a
    positive modulus dividing the pivot product (divisibility failure).
    Entries of ``v`` must be Python ``int``s, used as given.

    ``v`` is walked down the echelon rows E (``Lattice.echelon``); the
    Hermite form H = T·E (T unit upper triangular) gives the same first
    failing pivot, rational column and final residue.  With L_k the span
    of rows k, k+1, … (the same for E and H): if the two residues before
    row k differ by Σ_{j≥k} α_j·E_j, their entries at pivot c_k differ by
    α_k·p_k (E and H share each pivot p_k), so both divide or neither
    does, the quotients differ by α_k, and as H_k - E_k ∈ L_{k+1} the
    residues after row k differ within L_{k+1}, which is 0 after the last
    row.  So q·E = q′·H = q′T·E, and E has full row rank: q = q′T, and
    over the forward transform u⁰ (``keep``) q·u⁰ = q′·(T·u⁰), the
    coefficients over H's own transform.  Certificates do not move.

    The residue is sparse and is walked from a heap of the pivot columns
    it holds (``Lattice._pivot_rows``), as ``_hnf_back`` walks a row, so
    it visits only the rows it subtracts (over ``tools/replay.py kappa``'s
    queries a median 9 of Im δ̄'s 168 on C13, 5 of 1 344 at k = 6).
    Columns leave the heap in increasing order.  A row subtracted at pivot
    c has no entry left of c, so every column it adds is greater than c
    and enters the heap when it is added; the subtraction is in place, and
    an entry that cancels stays a stored 0 until one final scan.  A column
    that leaves the heap with entry 0 is skipped, as the linear walk down
    every row skips a pivot whose entry is 0 (quotient 0, remainder 0, no
    change).  So the walk meets the same rows, finds the same quotients
    and fails at the same first row k; a rational failure's column c is
    the least column with a nonzero entry; and q·u⁰ sums only the rows of
    ``keep`` with q_k ≠ 0.

    A failure's witness is ``_pivot_witness``: the functional of its
    failing row or column is solved on the first failure there and
    cached, and each failure pairs it with ``v``.
    """
    n = lat.ambient_rank
    if isinstance(v, dict):
        if v and not 0 <= min(v) <= max(v) < n:
            raise ValueError(f"sparse vector key outside [0, {n})")
        v = dict(compress(v.items(), v.values()))
    elif len(v) != n:
        raise ValueError("vector length does not match ambient rank")
    else:
        v = dict(compress(enumerate(v), v))
    e, keep, _, _ = lat.echelon()
    rows, row_of, rem, quotients = e.sparse_rows, lat._pivot_rows(), dict(v), []
    todo = [c for c in rem if c in row_of]
    heapify(todo)
    while todo:
        c = heappop(todo)
        x = rem[c]
        if x:
            k = row_of[c]
            q, r = divmod(x, rows[k][c])
            if r:
                return MembershipResult(False, witness=_pivot_witness(lat, v, k=k))
            quotients.append((k, q))
            for j, y in rows[k].items():
                z = rem.get(j)
                if z is None:
                    rem[j] = -q * y
                    if j in row_of:
                        heappush(todo, j)
                else:
                    rem[j] = z - q * y
    if any(rem.values()):
        return MembershipResult(False, witness=_pivot_witness(lat, v, c=min(j for j, x in rem.items() if x)))
    return MembershipResult(True, coefficients=densify(combine(quotients, keep), keep.cols))


def _pivot_witness(lat: Lattice, v: dict[int, int], *, k=None, c=None) -> Witness:
    """The witness at divisibility row ``k`` or rational column ``c``: a cached functional paired with the sparse ``v``.

    The functional depends on the lattice and on k or c alone, never on
    ``v`` (``_witness_functional``), so it is solved on the first failure
    at its key and kept in ``lat._cache["witness"]``, beside the echelon,
    block and canonical stages it was read from.  Each query pairs it with
    ``v`` over its support, at most rank + 1 entries.
    """
    cache = lat._cache.setdefault("witness", {})
    if (k, c) not in cache:
        cache[k, c] = _witness_functional(lat, k, c)
    f, modulus, support = cache[k, c]
    pairing = sum(x * v.get(p, 0) for p, x in support)
    return Witness(f, modulus, pairing % modulus if modulus else pairing)


def _witness_functional(lat: Lattice, k: int | None, c: int | None):
    """``(functional, modulus, support pairs)`` from one back-substitution on the pivot block P of the Hermite form H.

    P, the pivot columns of H, is upper triangular with determinant d,
    the pivot product, so y = d·P⁻¹b is integral (the adjugate).  A
    divisibility failure at pivot row ``k`` solves for b = e_k: y on the
    pivot coordinates maps every row of H into dZZ, and the modulus is d.
    A rational failure at the non-pivot column ``c`` solves for
    b = -H[:, c] and sets f_c = d, so f kills every row of H exactly (the
    modulus is 0); f is then divided by the gcd of its entries.  Neither b
    reads the failing vector: a vector fails at row k when its residue's
    entry at pivot k is not a multiple of it, and at column c when its
    residue is nonzero at c and zero at every pivot, so f·v ≢ 0 for it.

    A divisibility witness reads only P (``Lattice._pivot_block``), a
    rational one H's column c too (``canonical_form``).
    """
    e, _, pivots, det = lat.echelon()
    above, rank = lat._pivot_block(), len(pivots)
    if c is None:
        b = [det if i == k else 0 for i in range(rank)]
        top = k  # b and so y vanish below row k
    else:
        b = [-det * row.get(c, 0) for row in lat.canonical_form.sparse_rows]
        top = rank - 1
    y = [0] * rank
    for i in range(top, -1, -1):
        s = b[i] - sum(x * y[j] for j, x in above[i])
        y[i], r = divmod(s, e.sparse_rows[i][pivots[i]])
        if r:
            raise AssertionError("adjugate witness is not integral")
    if c is None:
        support, coeffs, modulus = pivots, y, det
    else:
        g = math.gcd(*y, det)
        support, coeffs, modulus = [*pivots, c], [x // g for x in (*y, det)], 0
    f = [0] * lat.ambient_rank
    for p, x in zip(support, coeffs):
        f[p] = x
    return tuple(f), modulus, tuple((p, x) for p, x in zip(support, coeffs) if x)


def perp(lat: Lattice) -> Lattice:
    """Integer functionals vanishing on the lattice (ambient dual, same coords).

    The lattice is first split as L = Z^D ⊕ L′ by peeling its unit rows
    (``_peel_unit_rows``): L′ lies on the columns C′ outside D.  A
    functional x vanishes on L iff x_d = 0 for d ∈ D (as e_d ∈ L) and x
    restricted to C′ vanishes on L′, so L⊥ = 0 ⊕ L′⊥: the basis of L′⊥
    spread back over C′ by zeros.  With no unit row L′ is L.

    L′⊥ is the right kernel {x : Hx = 0} of L′'s canonical form H: it
    depends only on the span.  When the pivot product (the echelon
    stage's) is 1, the pivot columns p_k of H are the identity columns
    (zeros below a pivot, entries above it in [0, 1)), so row k of Hx = 0
    reads x_{p_k} = -Σ_c H[k][c]·x_c over the non-pivot columns c, which
    are free: the rows e_c - Σ_k H[k][c]·e_{p_k}, one per non-pivot column,
    are a basis, and no reduction builds them.  Any other L′ takes the
    left kernel of Hᵀ.  Computed once per lattice and cached with its
    stages (``Lattice._unit_split``), so ``perp(lat) is perp(lat)``.
    """
    return lat._unit_split()[2]


@dataclass(frozen=True)
class QuotientPresentation:
    """Integer presentation of ``ZZ^ambient_rank / lattice``.

    ``projection`` (ambient x free_rank) is Kᵀ for K a basis of
    ``perp(lattice)``, the functionals vanishing on it, so it kills the
    lattice; ``quotient_presentation`` takes K as the canonical form.
    ``section`` (free_rank x ambient) is a right inverse: the unit rows at
    K's pivot columns when those are identity columns, otherwise read off
    the transform that reduces Kᵀ to its Hermite form ``I``.
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

    Rank and torsion are read off L′, where ``perp`` splits L = Z^D ⊕ L′
    by peeling unit rows: rank L = |D| + rank L′, and ZZ^n/L ≅ ZZ^{C′}/L′,
    so L is saturated iff L′ is.  The torsion is decided once.  When
    every Hermite pivot of L′ is 1 (so every pivot of L, whose Hermite
    form is the rows e_d with L′'s spread over C′), L′ is saturated and
    the divisors are all 1 without a Smith form: if m·v ∈ L′, the
    coefficients of m·v over the rows of the canonical form H are its
    entries at H's pivot columns, which are identity columns, so each is
    divisible by m and v ∈ L′.  Any other lattice takes the ``snf``
    divisors of the canonical form of ``lat`` itself; the torsion of the
    quotient is ⊕ Z/d over them, so they are all 1 exactly when ``lat``
    is saturated.

    The section reads K = ``perp(lat).canonical_form``.  When K's pivot
    product is 1, its pivot columns p_1 < … < p_f are the identity
    columns (zeros below a pivot, entries above it in [0, 1)), so the unit
    rows e_{p_k} satisfy section·Kᵀ = I: K is primitive, and no
    ``hnf_with_transform`` runs.  They are the rows that reduction's
    transform would give: row p_k of Kᵀ is e_k and is the lowest row with
    a nonzero entry in column k, so the forward pass takes it as the k-th
    pivot unchanged, and the back-substitution has nothing to reduce.  Any
    other K takes the transform and checks that its Hermite form is I.
    """
    n, (rank, rest_det, comp) = lat.ambient_rank, lat._unit_split()
    projection, (_, _, pivots, det) = comp.canonical_form.transpose(), comp.echelon()
    f = projection.cols
    if det == 1:
        section = IntMatrix._of([{c: 1} for c in pivots], n)
    else:
        h, u, _ = hnf_with_transform(projection)
        if h != IntMatrix.identity(f):
            raise AssertionError("the orthogonal complement is not primitive")
        section = IntMatrix._of(u.sparse_rows[:f], n)
    divisors = (1,) * rank if rest_det == 1 else snf(lat.canonical_form)[0]
    return QuotientPresentation(
        ambient_rank=n,
        elementary_divisors=divisors,
        free_rank=f,
        projection=projection,
        section=section,
    )
