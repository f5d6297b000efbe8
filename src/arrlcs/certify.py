"""κ ≠ 0 on a MacLane gluing, certified from c8's witness by products alone.

``glue_copies(k)`` holds k copies of the MacLane configuration c8; copy c
sends c8's line i to ``copy_line(c, i)``.  A witness (w, m) for κ ≠ 0 on
c8 (``lcs.kappa``) is a functional on c8's flat Hom(R2,P3) that vanishes
on Im δ̄ mod m.  Pulled back through one copy by the line-map rules
(``pulled_back_functional``) it is a functional Φ on ⊕_g H⊗Λ²H of the
gluing, keyed g·``hw_rank`` + s for generator flag g and slot s, as
``maclane.tau_star`` takes it.  Three
checks, each a sum of products over Φ's entries, prove that Φ separates a
τ̃ value from Im δ̄ on the gluing itself (``certify_glued``):

- (a) ``failures_a``: each Φ_g kills x_m⊗r for every R2 basis row r (the
  left-normed lifts of R3's generators [x_m, r]) and every Jacobi element
  x_a⊗(x_b∧x_c) − x_b⊗(x_a∧x_c) + x_c⊗(x_a∧x_b), which span the kernel of
  the bracket H⊗Λ²H → L3.  So Φ descends to Hom(R2,P3), whatever P3's
  presentation is;
- (b) ``failures_b``: Φ pairs to 0 mod m with the δ-lift of every unit map
  x_i ↦ x_a∧x_b, the lift (``LcsData._lift``) of x_a∧x_b over line i's
  flags.  These maps, read mod R2, span Hom(H,P2) because L2 → P2 is
  onto, and by (a) Φ reads a δ-lift only through its δ̄ value, so Φ
  vanishes on Im δ̄ mod m; no P2 section is read;
- (c) ``tau_pairing``: Φ paired with the τ̃-lift of ḡ − ḡ′, read at its
  nonzero A coordinates only, is ≢ 0 mod m.

With no failures in (a) and (b) and a nonzero pairing, τ̃(ḡ − ḡ′) lies
outside Im δ̄: κ ≠ 0 on the gluing.  The proof rests on the three checks
alone, not on c8's data being right.  Nothing here reduces a matrix: this
module reads ``LcsData``'s lift (``_coordinate_lift`` and
``_flag_terms_transpose``), its wedge positions, its R2 basis transposed
and c8's P3 map ``_bracket_p3``, and builds no lattice.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

from .config import ConfigMismatchError, copy_line, flag_images
from .words import AbelianGMap, GMap, _as_abelian, slot_images

if TYPE_CHECKING:
    from .lcs import LcsData


def pulled_back_functional(data: LcsData, c8: LcsData, copy: int, functional: Sequence[int]) -> dict[int, int]:
    """Φ on ⊕_g H⊗Λ²H of ``glue_copies(k)``'s ``data`` from a functional on c8's flat Hom(R2,P3), through MacLane copy ``copy``.

    Block g_S of ``functional`` (c8's generator flag (i, p)) composed with
    c8's ``_bracket_p3`` is a functional W[g_S] on c8's H⊗Λ²H.  It is
    placed at the image generator flag g_C and each slot at its image slot,
    with its sign, by the line-map rules ``flag_images`` (which raises
    ``ConfigMismatchError`` if ``data`` holds no copy ``copy``) and
    ``slot_images``.  Keys are g_C·``hw_rank`` + slot.
    """
    r8, line = c8.p3.free_rank, [copy_line(copy, i) for i in range(c8.n + 1)]
    flags, slots = flag_images(c8.config, data.config, line), slot_images(c8.n, data.wedge_pos, line)
    columns = c8._bracket_p3.transpose().sparse_rows  # P3 coordinate t → {c8 slot: coefficient}
    out = {}
    for g8, flag in enumerate(c8.gens):
        base, w = data.index.gen_pos[flags[flag]] * data.hw_rank, {}
        for t, x in enumerate(functional[g8 * r8 : (g8 + 1) * r8]):
            if x:
                for s, y in columns[t].items():
                    w[s] = w.get(s, 0) + x * y
        out.update((base + slots[s][0], slots[s][1] * x) for s, x in w.items() if x)
    return out


def _residue(x: int, modulus: int) -> int:
    return x % modulus if modulus else x


def failures_a(data: LcsData, phi: dict[int, int]) -> int:
    """Check (a): the (generator flag, element) pairs where Φ_g ≠ 0 does not kill x_m⊗r (R2 row r) or a Jacobi element exactly.

    Only the elements that meet Φ_g's slots are paired: each entry at slot
    (m, w) is summed into (m, r) for every R2 row r with an entry at w,
    read off R2's basis transposed, and a Jacobi element {a, b, c} is
    paired only where Φ_g has a slot x_m⊗(x_a∧x_b) with m ∉ {a, b}.  Every
    other pairing is an empty sum.
    """
    hw, np_, pairs, wp = data.hw_rank, data.npairs, list(data.wedge_pos), data.wedge_pos
    at, blocks = data.r2.basis.transpose().sparse_rows, {}
    for k, x in phi.items():
        blocks.setdefault(k // hw, {})[k % hw] = x
    bad = 0
    for f in blocks.values():
        sums, triples = {}, set()
        for s, x in f.items():
            m, w = divmod(s, np_)
            for k, y in at[w].items():
                sums[m, k] = sums.get((m, k), 0) + x * y
            if m + 1 not in pairs[w]:
                triples.add(tuple(sorted((m + 1, *pairs[w]))))
        bad += sum(1 for x in sums.values() if x)
        for a, b, c in triples:
            bad += bool(f.get((a - 1) * np_ + wp[b, c], 0) - f.get((b - 1) * np_ + wp[a, c], 0) + f.get((c - 1) * np_ + wp[a, b], 0))
    return bad


def failures_b(data: LcsData, phi: dict[int, int], modulus: int) -> int:
    """Check (b): the unit maps x_i ↦ x_a∧x_b whose δ-lift Φ pairs to ≢ 0 mod ``modulus``.

    That lift is ``_lift`` of x_a∧x_b (wedge position w) over line i's
    ``_flag_terms``: a term (g, j, s) puts s at generator flag g, slot
    (j, w).  So each entry of Φ at (g, (j, w)) is summed into (line i, w)
    with sign s for each (flag (i, p), s) at (g, j) in
    ``_flag_terms_transpose``; only the sums an entry touched are checked.
    """
    hw, np_, terms, lines, sums = data.hw_rank, data.npairs, data._flag_terms_transpose, data.index.pairs, {}
    for k, x in phi.items():
        g, (j, w) = k // hw, divmod(k % hw, np_)
        for f, s in terms.get((g, j + 1), ()):
            i = lines[f][0]
            sums[i, w] = sums.get((i, w), 0) + s * x
    return sum(1 for x in sums.values() if _residue(x, modulus))


def tau_pairing(data: LcsData, phi: dict[int, int], difference: AbelianGMap, modulus: int) -> int:
    """Check (c): Φ paired with the τ̃-lift of ``difference``, mod ``modulus``.

    Only the nonzero coordinates of ``difference`` are lifted
    (``LcsData._coordinate_lift``).
    """
    hw, n, vec = data.hw_rank, data.n, difference.vector()
    total = sum(d * c * phi.get(g * hw + s, 0) for a, d in enumerate(vec) if d for g, s, c in data._coordinate_lift(a // n, a % n + 1))
    return _residue(total, modulus)


@dataclass(frozen=True)
class GluedCertificate:
    """Checks (a), (b) and (c) of c8's witness pulled back through ``copy``: failure counts, the modulus and the pairing."""

    copy: int
    modulus: int
    pairing: int
    failures_a: int
    failures_b: int

    @property
    def proves_nonzero(self) -> bool:
        """κ ≠ 0: no failure in (a) or (b), and a nonzero pairing (c)."""
        return not self.failures_a and not self.failures_b and self.pairing != 0

    def to_json_dict(self) -> dict:
        return asdict(self)


def first_differing_copy(data: LcsData, c8: LcsData, difference: AbelianGMap) -> int:
    """The first MacLane copy of the gluing ``data`` with a flag where ``difference`` is nonzero; ValueError if there is none."""
    n, pairs, copy = data.n, data.index.pairs, 0
    differ = {pairs[a // n] for a, d in enumerate(difference.vector()) if d}
    while copy_line(copy, c8.n) <= n:
        if not differ.isdisjoint(flag_images(c8.config, data.config, [copy_line(copy, i) for i in range(c8.n + 1)]).values()):
            return copy
        copy += 1
    raise ValueError("the two g-maps agree on every MacLane copy")


def certify_glued(data: LcsData, c8: LcsData, functional: Sequence[int], modulus: int, g: GMap | AbelianGMap, gprime: GMap | AbelianGMap) -> GluedCertificate | None:
    """c8's κ witness (``functional``, ``modulus``) pulled back through the first copy where ḡ and ḡ′ differ, and checked on ``data``.

    None when ḡ − ḡ′ = 0, where κ = 0 needs no certificate.
    """
    difference = _as_abelian(g) - _as_abelian(gprime)
    if difference.config != data.config:
        raise ConfigMismatchError("conjugator data belongs to another configuration")
    if difference.is_zero():
        return None
    copy = first_differing_copy(data, c8, difference)
    phi = pulled_back_functional(data, c8, copy, functional)
    return GluedCertificate(copy, modulus, tau_pairing(data, phi, difference, modulus), failures_a(data, phi), failures_b(data, phi, modulus))
