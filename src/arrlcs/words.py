"""Free-group words, arrangement relators, and the truncated Magnus map.

Generators are w1..wn, one per finite line of a configuration (line 0,
the line at infinity, has none).  Words are stored freely reduced as
tuples of signed indices: +i for wi, -i for its inverse.

Group commutators follow [a, b] = a^-1 b^-1 a b; the Magnus expansion
sends wi to 1 + Xi and wi^-1 to 1 - Xi + Xi^2 - Xi^3, truncated in
degree 3, so commutator brackets match [x, y] = xy - yx on the graded
pieces.  A truncated series is one sparse map from words in the free
associative algebra (tuples of generator indices, length at most 3)
to their coefficients, the unit at the empty word.

The Lie bases used for coordinates are Lyndon bases: for each Lyndon
word the bracketing of its standard factorization.  Expansion of such a
bracketing is the word itself plus lexicographically larger words of
the same letter content, so coordinates are read off by a
division-free triangular sweep.  The Lyndon words of degrees 2 and 3
also have closed-form position maps (``wedge_index``, ``lyndon3_index``),
which the graded calculus of ``lcs`` uses without building a basis.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .config import Configuration
from .exactlin import densify


class NotInGamma(ValueError):
    """Series has a nonzero component below the requested degree."""


class NotLieElement(ValueError):
    """Degree component is not in the span of the Lie basis expansions."""


# -- words ------------------------------------------------------------------


def _inverse_letters(w: "Word") -> tuple[int, ...]:
    """The letters of w^-1, already reduced."""
    return tuple(-x for x in reversed(w.letters))


class Word:
    """Freely reduced word in the free group on w1, w2, ..."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        stack: list[int] = []
        for x in letters:
            x = int(x)
            if x == 0:
                raise ValueError("letter index 0 is reserved")
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        object.__setattr__(self, "letters", tuple(stack))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @staticmethod
    def gen(i: int, exponent: int = 1) -> "Word":
        if i <= 0:
            raise ValueError("generator index must be positive")
        if exponent >= 0:
            return Word([i] * exponent)
        return Word([-i] * (-exponent))

    @staticmethod
    def identity() -> "Word":
        return Word()

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(_inverse_letters(self))

    def conjugated(self, g: "Word") -> "Word":
        """g^-1 * self * g, reduced once."""
        return Word(_inverse_letters(g) + self.letters + g.letters)

    def relabeled(self, line_map: Mapping[int, int]) -> "Word":
        """Rename generators by a line relabeling (identity where unmapped)."""
        out = []
        for x in self.letters:
            i = abs(x)
            j = line_map.get(i, i)
            out.append(j if x > 0 else -j)
        return Word(out)

    def __pow__(self, k: int) -> "Word":
        """self^k, reduced once."""
        return Word((self.letters if k >= 0 else _inverse_letters(self)) * abs(k))

    def is_identity(self) -> bool:
        return not self.letters

    def exponent_sums(self, n: int) -> tuple[int, ...]:
        out = [0] * n
        for x in self.letters:
            i = abs(x)
            if i > n:
                raise ValueError(f"letter w{i} outside range 1..{n}")
            out[i - 1] += 1 if x > 0 else -1
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        k = 0
        while k < len(self.letters):
            x = self.letters[k]
            j = k
            while j < len(self.letters) and self.letters[j] == x:
                j += 1
            e = (j - k) if x > 0 else -(j - k)
            parts.append(f"w{abs(x)}" if e == 1 else f"w{abs(x)}^{e}")
            k = j
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Word({self})"


_TOKEN = re.compile(r"^w(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str) -> Word:
    """Parse the whitespace-separated word syntax, e.g. 'w6^-1 w3^-1'."""
    text = text.strip()
    if text in ("", "1"):
        return Word()
    letters: list[int] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"bad word token {token!r}")
        i = int(m.group(1))
        if i == 0:
            raise ValueError("generator index 0 is reserved for the infinity line")
        e = int(m.group(2)) if m.group(2) is not None else 1
        letters.extend([i if e > 0 else -i] * abs(e))
    return Word(letters)


def commutator(a: Word, b: Word) -> Word:
    """[a, b] = a^-1 b^-1 a b, reduced once."""
    return Word(_inverse_letters(a) + _inverse_letters(b) + a.letters + b.letters)


# -- conjugator maps --------------------------------------------------------


_FLAG_KEY = re.compile(r"^\((\d+),\s*([^)]+)\)$")


def _check_flag(config: Configuration, i: int, p: str) -> None:
    if (i, p) not in config.index.pair_pos:
        raise ValueError(f"({i},{p}) is not a line/point flag off the infinity line")


class GMap:
    """Assignment of a conjugating word to each flag; defaults to identity."""

    __slots__ = ("config", "assignments")

    def __init__(self, config: Configuration, assignments: Mapping[tuple[int, str], Word] | None = None):
        clean: dict[tuple[int, str], Word] = {}
        for (i, p), w in (assignments or {}).items():
            _check_flag(config, i, p)
            if not w.is_identity():
                clean[(i, p)] = w
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "assignments", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GMap is immutable")

    def value(self, i: int, p: str) -> Word:
        return self.assignments.get((i, p), Word())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GMap)
            and self.config == other.config
            and self.assignments == other.assignments
        )

    def __hash__(self) -> int:
        return hash((self.config, tuple(sorted(self.assignments.items()))))

    def to_json_dict(self) -> dict:
        return {f"({i},{p})": str(w) for (i, p), w in sorted(self.assignments.items(), key=lambda kv: (kv[0][1], kv[0][0]))}

    @staticmethod
    def from_json_dict(config: Configuration, data: Mapping[str, str]) -> "GMap":
        if not isinstance(data, dict):
            raise ValueError("g-map JSON must be an object of flag keys to words")
        assignments = {}
        for key, text in data.items():
            m = _FLAG_KEY.match(key.strip())
            if not m:
                raise ValueError(f"bad flag key {key!r}; expected '(i,point)'")
            if not isinstance(text, str):
                raise ValueError(f"word at {key!r} must be a string")
            flag = (int(m.group(1)), m.group(2).strip())
            if flag in assignments:
                raise ValueError(f"flag key {key!r} names the flag ({flag[0]},{flag[1]}) a second time")
            assignments[flag] = parse_word(text)
        return GMap(config, assignments)


class AbelianGMap:
    """Abelianized conjugator data: one flat vector in ZZ^(flags × n).

    The vector is flag-major over the index pair order, n coordinates (one
    per finite line) per flag: the vector that τ̃, the mod-3 functional
    and ``from_vector`` use.  ``vector()`` returns it as stored, and sums
    and differences work on it entry by entry.  ``values`` is a read-only
    view built when read: the nonzero flags with their n-tuples.  Entries
    must be Python ``int``s, as for ``IntMatrix``; the constructor from a
    flag dict and ``from_vector`` refuse anything else rather than coerce.
    """

    __slots__ = ("config", "_vec")

    def __init__(self, config: Configuration, values: Mapping[tuple[int, str], Sequence[int]] | None = None):
        idx = config.index
        n = idx.n
        vec = [0] * (len(idx.pairs) * n)
        for (i, p), v in (values or {}).items():
            _check_flag(config, i, p)
            v = tuple(v)
            if len(v) != n:
                raise ValueError("abelian value has wrong length")
            _check_ints(v, [(i, p)], n)
            base = idx.pair_pos[(i, p)] * n
            vec[base : base + n] = v
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "_vec", tuple(vec))

    @classmethod
    def _of(cls, config: Configuration, vec: tuple[int, ...]) -> "AbelianGMap":
        """Wrap a flat vector already checked against ``config``."""
        a = object.__new__(cls)
        object.__setattr__(a, "config", config)
        object.__setattr__(a, "_vec", vec)
        return a

    def __setattr__(self, name, value):
        raise AttributeError("AbelianGMap is immutable")

    @property
    def values(self) -> Mapping[tuple[int, str], tuple[int, ...]]:
        n, vec = self.config.index.n, self._vec
        blocks = ((flag, vec[k * n : (k + 1) * n]) for k, flag in enumerate(self.config.index.pairs))
        return MappingProxyType({flag: v for flag, v in blocks if any(v)})

    def value(self, i: int, p: str) -> tuple[int, ...]:
        n, k = self.config.index.n, self.config.index.pair_pos.get((i, p))
        return (0,) * n if k is None else self._vec[k * n : (k + 1) * n]

    def _entrywise(self, op, other: "AbelianGMap") -> "AbelianGMap":
        if self.config != other.config:
            raise ValueError("different configurations")
        return AbelianGMap._of(self.config, tuple(map(op, self._vec, other._vec)))

    def __sub__(self, other: "AbelianGMap") -> "AbelianGMap":
        return self._entrywise(operator.sub, other)

    def __add__(self, other: "AbelianGMap") -> "AbelianGMap":
        return self._entrywise(operator.add, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianGMap) and self.config == other.config and self._vec == other._vec

    def __hash__(self) -> int:
        return hash((self.config, self._vec))

    def is_zero(self) -> bool:
        return not any(self._vec)

    def vector(self) -> tuple[int, ...]:
        """The flat vector over the index pair order, n coordinates per flag."""
        return self._vec

    @staticmethod
    def from_vector(config: Configuration, vec: Sequence[int]) -> "AbelianGMap":
        idx = config.index
        n = idx.n
        vec = tuple(vec)
        if len(vec) != len(idx.pairs) * n:
            raise ValueError("vector length mismatch")
        _check_ints(vec, idx.pairs, n)
        return AbelianGMap._of(config, vec)


def _check_ints(vec: Sequence, flags: Sequence[tuple[int, str]], n: int) -> None:
    """Refuse an entry that is not an ``int`` in ``vec``, n entries per flag of ``flags``, naming its coordinate."""
    if set(map(type, vec)) - {int}:
        k = next(k for k, x in enumerate(vec) if type(x) is not int)
        i, p = flags[k // n]
        raise ValueError(f"abelian entry {vec[k]!r} at ({i},{p}), coordinate x{k % n + 1}, is not an int")


def abelianize(g: GMap) -> AbelianGMap:
    n = g.config.index.n
    return AbelianGMap(g.config, {flag: w.exponent_sums(n) for flag, w in g.assignments.items()})


def _as_abelian(g: GMap | AbelianGMap) -> AbelianGMap:
    return abelianize(g) if isinstance(g, GMap) else g


# -- relators ---------------------------------------------------------------


def conjugated_generators(config: Configuration, g: GMap, p: str) -> list[tuple[int, Word]]:
    """[(i, g(i,p)^-1 wi g(i,p))] for the lines through p, ascending; ValueError if g belongs to another configuration."""
    if g.config != config:
        raise ValueError("g-map belongs to another configuration")
    return [
        (i, Word.gen(i).conjugated(g.value(i, p)))
        for i in config.lines_through(p)
    ]


def _cyclic_product(ws: list[tuple[int, Word]], a: int) -> Word:
    """c_a = w(i_a) w(i_{a-1}) ... w(i_1) w(i_k) ... w(i_{a+1}) for ``ws`` from ``conjugated_generators``, reduced once."""
    k = len(ws)
    return Word(x for t in range(k) for x in ws[(a - 1 - t) % k][1].letters)


def _relator(ws: list[tuple[int, Word]], a: int) -> Word:
    """[w(i_a), c_a], the relator at the flag (i_a, p), for ``ws`` from ``conjugated_generators``."""
    return commutator(ws[a - 1][1], _cyclic_product(ws, a))


def relators_from_g(config: Configuration, g: GMap) -> dict[tuple[int, str], Word]:
    """One relator per non-minimal flag of each finite point.

    At a point p with lines i_1 < ... < i_k the cyclic products are
    c_a = w(i_a) w(i_{a-1}) ... w(i_1) w(i_k) ... w(i_{a+1}) with the
    conjugated generators w(i) = g(i,p)^-1 wi g(i,p); the relator at
    the flag (i_a, p) is [w(i_a), c_a].  (It equals c_{a-1}^-1 c_a,
    since c_{a-1} = w(i_a)^-1 c_a w(i_a).)  The a = 1 relator is the
    redundant one and is dropped.  Raises ValueError if ``g`` belongs
    to another configuration.
    """
    out: dict[tuple[int, str], Word] = {}
    for p in config.index.p0:
        ws = conjugated_generators(config, g, p)
        for a in range(2, len(ws) + 1):
            out[(ws[a - 1][0], p)] = _relator(ws, a)
    return out


def relator_at_flag(config: Configuration, g: GMap, i: int, p: str) -> Word:
    """[w(i), c_a] at the flag, defined for the minimal line too; ValueError if ``g`` belongs to another configuration."""
    ws = conjugated_generators(config, g, p)
    return _relator(ws, [j for j, _ in ws].index(i) + 1)


# -- truncated Magnus expansion ---------------------------------------------


class TruncatedSeries:
    """Degree-<=3 part of a free associative series with integer coefficients.

    ``terms`` maps each word of length <= 3 (a tuple of generator
    indices) to its nonzero coefficient; the unit sits at the empty word.
    The constructor takes the unit and ``{degree: {word: coefficient}}``.
    """

    __slots__ = ("terms",)

    def __init__(self, unit: int = 0, terms: Mapping[int, Mapping[tuple[int, ...], int]] | None = None):
        flat = {(): unit}
        for d, comp in (terms or {}).items():
            if d not in (1, 2, 3):
                raise ValueError("degrees 1..3 only")
            for w, c in comp.items():
                if len(w) != d:
                    raise ValueError("word length does not match degree")
                flat[tuple(w)] = c
        object.__setattr__(self, "terms", {w: int(c) for w, c in flat.items() if c})

    @classmethod
    def _of(cls, terms: dict[tuple[int, ...], int]) -> "TruncatedSeries":
        """Wrap a word -> coefficient map already truncated at degree 3, dropping zeros."""
        s = object.__new__(cls)
        object.__setattr__(s, "terms", {w: c for w, c in terms.items() if c})
        return s

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def unit(self) -> int:
        return self.terms.get((), 0)

    @staticmethod
    def one() -> "TruncatedSeries":
        return TruncatedSeries(1)

    @staticmethod
    def letter(i: int, sign: int) -> "TruncatedSeries":
        """Expansion of a single group letter wi^(+-1)."""
        if sign > 0:
            return TruncatedSeries._of({(): 1, (i,): 1})
        return TruncatedSeries._of({(i,) * d: (-1) ** d for d in range(4)})

    def component(self, d: int) -> dict[tuple[int, ...], int]:
        return {w: c for w, c in self.terms.items() if len(w) == d}

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out: dict[tuple[int, ...], int] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                if len(u) + len(v) <= 3:
                    out[u + v] = out.get(u + v, 0) + a * b
        return TruncatedSeries._of(out)

    def _entrywise(self, op, other: "TruncatedSeries") -> "TruncatedSeries":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = op(out.get(w, 0), c)
        return TruncatedSeries._of(out)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._entrywise(operator.add, other)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._entrywise(operator.sub, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"TruncatedSeries(unit={self.unit}, {sum(1 for w in self.terms if w)} terms)"


def magnus(word: Word) -> TruncatedSeries:
    """Truncated Magnus expansion of a group word."""
    out = TruncatedSeries.one()
    for x in word.letters:
        out = out * TruncatedSeries.letter(abs(x), 1 if x > 0 else -1)
    return out


# -- Lyndon bases -------------------------------------------------------------


def _is_lyndon(w: tuple[int, ...]) -> bool:
    return all(w < w[k:] + w[:k] for k in range(1, len(w)))


def lyndon_words(n: int, k: int) -> list[tuple[int, ...]]:
    """All Lyndon words of length k over letters 1..n, lexicographic."""

    def gen(prefix: tuple[int, ...]):
        if len(prefix) == k:
            if _is_lyndon(prefix):
                yield prefix
            return
        for x in range(1, n + 1):
            yield from gen(prefix + (x,))

    return list(gen(()))


def standard_bracketing(w: tuple[int, ...]):
    """Nested-pair tree from the standard (right) factorization."""
    if len(w) == 1:
        return w[0]
    best = None
    for s in range(1, len(w)):
        suf = w[s:]
        if _is_lyndon(suf):
            best = s
            break  # longest proper Lyndon suffix = earliest start
    return (standard_bracketing(w[:best]), standard_bracketing(w[best:]))


def _tree_tensor(tree) -> dict[tuple[int, ...], int]:
    if isinstance(tree, int):
        return {(tree,): 1}
    a = _tree_tensor(tree[0])
    b = _tree_tensor(tree[1])
    out: dict[tuple[int, ...], int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            out[w] = out.get(w, 0) + ca * cb
            w = wb + wa
            out[w] = out.get(w, 0) - ca * cb
    return {w: c for w, c in out.items() if c}


class LieBasis:
    """Lyndon basis of the degree-k piece of the free Lie ring on n letters."""

    __slots__ = ("n", "degree", "words", "index", "expansions")

    def __init__(self, n: int, degree: int):
        words = lyndon_words(n, degree)
        expansions = []
        for w in words:
            t = _tree_tensor(standard_bracketing(w))
            if t.get(w) != 1 or min(t) != w:
                raise AssertionError(f"bracketing of {w} is not unitriangular in the Lyndon basis")
            expansions.append(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "words", tuple(words))
        object.__setattr__(self, "index", {w: i for i, w in enumerate(words)})
        object.__setattr__(self, "expansions", tuple(expansions))

    def __setattr__(self, name, value):
        raise AttributeError("LieBasis is immutable")

    def __len__(self) -> int:
        return len(self.words)


@lru_cache(maxsize=None)
def lie_basis(n: int, degree: int) -> LieBasis:
    return LieBasis(n, degree)


def lie_sparse_coords(component: Mapping[tuple[int, ...], int], basis: LieBasis) -> dict[int, int]:
    """Lyndon coordinates ``{basis position: coefficient}`` of a raw tensor component.

    Each expansion is unitriangular with leading (least) word its Lyndon
    word, so the least word left must be Lyndon, and subtracting its
    expansion clears it; a non-Lyndon least word is a residue no sweep
    removes.  Only the words present are visited.
    """
    target = {w: c for w, c in component.items() if c}
    for w in target:
        if any(x < 1 or x > basis.n for x in w):
            raise NotLieElement(f"letter outside 1..{basis.n} in {w}")
    coords = {}
    while target:
        k = basis.index.get(min(target))
        if k is None:
            raise NotLieElement(f"residual terms {sorted(target)[:3]}...")
        c = coords[k] = target[basis.words[k]]
        for u, cu in basis.expansions[k].items():
            r = target.get(u, 0) - c * cu
            if r:
                target[u] = r
            else:
                target.pop(u, None)
    return coords


def lie_component_coords(component: Mapping[tuple[int, ...], int], basis: LieBasis) -> tuple[int, ...]:
    """Lyndon coordinates of a raw tensor component, as a dense tuple."""
    return densify(lie_sparse_coords(component, basis), len(basis))


def lie_coords(series: TruncatedSeries, degree: int, n: int) -> tuple[int, ...]:
    """Coordinates of the degree component in the Lyndon basis.

    Requires every component below `degree` to vanish (the unit may be
    0 or 1, covering both group elements and differences); raises
    NotInGamma otherwise, and NotLieElement if the component is not a
    ZZ-combination of Lyndon bracketings.
    """
    if series.unit not in (0, 1):
        raise NotInGamma(f"unit component is {series.unit}")
    for d in range(1, degree):
        if series.component(d):
            raise NotInGamma(f"degree-{d} component is nonzero")
    return lie_component_coords(series.component(degree), lie_basis(n, degree))


# -- degree-2 coordinates of the canonical relator classes -------------------


def wedge_index(n: int) -> dict[tuple[int, int], int]:
    """Position of the pair (i, j), i < j, in the Lyndon order of degree 2."""
    out = {}
    k = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out[(i, j)] = k
            k += 1
    return out


def wedge_slot(idx: Mapping[tuple[int, int], int], a: int, b: int) -> tuple[int, int]:
    """x_a∧x_b as (position in ``idx``, sign), a ≠ b: the sign is -1 when a > b, as x_a∧x_b = -x_b∧x_a."""
    return (idx[a, b], 1) if a < b else (idx[b, a], -1)


def lyndon3_index(n: int) -> dict[tuple[int, int, int], int]:
    """Position of each degree-3 Lyndon word over 1..n in lexicographic order.

    A word (i, j, k) is Lyndon iff i ≤ j and i < k, so no word is tested:
    this equals ``lyndon_words(n, 3)`` enumerated.
    """
    words = ((i, j, k) for i in range(1, n + 1) for j in range(i, n + 1) for k in range(i + 1, n + 1))
    return {w: pos for pos, w in enumerate(words)}


def rbar_coords(config: Configuration, i: int, p: str, idx: Mapping[tuple[int, int], int] | None = None) -> tuple[int, ...]:
    """Degree-2 class [x_i, sum of x_j over lines j through p].

    ``idx`` is ``wedge_index(n)``, built here when not given; a caller
    that asks for many flags passes it once.
    """
    if idx is None:
        idx = wedge_index(len(config.lines) - 1)
    out = [0] * len(idx)
    for j in config.lines_through(p):
        if j != i and j != 0:
            w, sign = wedge_slot(idx, i, j)
            out[w] += sign
    return tuple(out)


def admissibility_check(config: Configuration, relators: Mapping[tuple[int, str], Word]) -> bool:
    """The relators sit at exactly ``config``'s generator flags, each in gamma_2 with degree-2 leading term [x_i, s_p]."""
    if set(relators) != set(config.index.generator_pairs):
        return False
    n = len(config.lines) - 1
    idx = wedge_index(n)
    for (i, p), w in relators.items():
        s = magnus(w)
        try:
            coords = lie_coords(s, 2, n)
        except (NotInGamma, NotLieElement):
            return False
        if coords != rbar_coords(config, i, p, idx):
            return False
    return True
