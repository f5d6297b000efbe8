"""Free-group words, Magnus expansions, Lyndon bases, and relator construction."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arrlcs.config import Configuration, glue_c13, maclane_c8
from arrlcs.words import (
    AbelianGMap,
    GMap,
    NotInGamma,
    NotLieElement,
    TruncatedSeries,
    Word,
    abelianize,
    admissibility_check,
    commutator,
    conjugated_generators,
    lie_basis,
    lie_component_coords,
    lie_coords,
    lie_sparse_coords,
    lyndon3_index,
    lyndon_words,
    magnus,
    parse_word,
    rbar_coords,
    relator_at_flag,
    relators_from_g,
    standard_bracketing,
    wedge_index,
)
from helpers import magnus_coefficient, witt_dimension


def random_word(rng: random.Random, n: int, maxlen: int = 6) -> Word:
    length = rng.randint(0, maxlen)
    return Word(
        rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length)
    )


def random_gmap(rng: random.Random, config: Configuration, maxlen: int = 3) -> GMap:
    n = len(config.lines) - 1
    assignments = {}
    for p in config.points:
        lines = config.lines_through(p)
        if 0 in lines:
            continue  # conjugators live on flags off the infinity line
        for i in lines:
            if rng.random() < 0.5:
                assignments[(i, p)] = random_word(rng, n, maxlen)
    return GMap(config, assignments)


# -- free group ---------------------------------------------------------------


def test_word_free_reduction():
    assert Word([1, -1]).is_identity()
    assert Word([1, 2, -2, -1]).is_identity()
    assert Word([1, 2, -2, 3]) == Word([1, 3])
    for k in range(300):
        rng = random.Random(k)
        u = random_word(rng, 5)
        v = random_word(rng, 5)
        w = random_word(rng, 5)
        i = rng.randint(1, 5)
        e = rng.choice((1, -1))
        assert u * Word.gen(i, e) * Word.gen(i, -e) * v == u * v
        assert u * w * w.inverse() * v == u * v
        assert (u * v).inverse() == v.inverse() * u.inverse()
        assert (u * v) * w == u * (v * w)


def test_word_identity_and_pow():
    e = Word.identity()
    assert e.is_identity() and len(e) == 0
    w = Word.gen(2) * Word.gen(3, -1)
    assert w * e == w and e * w == w
    assert w**0 == e
    assert w**3 == w * w * w
    assert w**-2 == (w.inverse()) ** 2
    assert Word.gen(4, 0) == e


def test_word_rejects_index_zero():
    with pytest.raises(ValueError):
        Word([0])
    with pytest.raises(ValueError):
        Word.gen(0)


def test_word_exponent_sums():
    w = Word.gen(3) * Word.gen(5, -2) * Word.gen(3)
    assert w.exponent_sums(5) == (0, 0, 2, 0, -2)
    assert Word.identity().exponent_sums(2) == (0, 0)
    with pytest.raises(ValueError):
        w.exponent_sums(4)


def test_word_relabeled():
    w = Word.gen(3) * Word.gen(8, -1)
    assert w.relabeled({3: 5, 8: 13}) == Word.gen(5) * Word.gen(13, -1)
    assert w.relabeled({8: 9}) == Word.gen(3) * Word.gen(9, -1)
    for k in range(100):
        rng = random.Random(k)
        w = random_word(rng, 5)
        fwd = {1: 4, 2: 5, 3: 1, 4: 2, 5: 3}
        back = {v: u for u, v in fwd.items()}
        assert w.relabeled(fwd).relabeled(back) == w


def test_word_conjugation():
    w = Word.gen(1)
    g = Word.gen(2) * Word.gen(3)
    assert w.conjugated(g) == g.inverse() * w * g
    for k in range(100):
        rng = random.Random(k)
        w = random_word(rng, 4)
        g = random_word(rng, 4)
        assert w.conjugated(g).conjugated(g.inverse()) == w


def test_word_str_parse_roundtrip():
    assert parse_word("w6^-1 w3^-1") == Word([-6, -3])
    assert parse_word("") == Word.identity()
    assert parse_word("1") == Word.identity()
    assert str(Word.identity()) == "1"
    w = Word.gen(2, 3) * Word.gen(1, -2)
    assert str(w) == "w2^3 w1^-2"
    for k in range(200):
        rng = random.Random(k)
        w = random_word(rng, 9, maxlen=10)
        assert parse_word(str(w)) == w


def test_parse_word_rejects_bad_tokens():
    for text in ("w0", "x3", "w2^", "w-1", "w2 ^3"):
        with pytest.raises(ValueError):
            parse_word(text)


def test_commutator_basics():
    a = Word.gen(1)
    b = Word.gen(2)
    assert commutator(a, b) == Word([-1, -2, 1, 2])
    assert commutator(a, a).is_identity()
    for k in range(100):
        rng = random.Random(k)
        u = random_word(rng, 4)
        v = random_word(rng, 4)
        assert commutator(u, v).inverse() == commutator(v, u)


# -- Magnus expansion ---------------------------------------------------------


def test_magnus_single_letters():
    s = magnus(Word.gen(1))
    assert s.unit == 1
    assert s.component(1) == {(1,): 1}
    assert s.component(2) == {}
    assert s.component(3) == {}
    t = magnus(Word.gen(1, -1))
    assert t.component(1) == {(1,): -1}
    assert t.component(2) == {(1, 1): 1}
    assert t.component(3) == {(1, 1, 1): -1}
    assert magnus(Word.identity()) == TruncatedSeries.one()


def test_magnus_matches_the_brute_force_oracle():
    n = 3
    monomials = [u for d in range(4) for u in itertools.product(range(1, n + 1), repeat=d)]
    for k in range(40):
        rng = random.Random(k)
        length, letters = rng.randint(0, 12), []
        while len(letters) < length:  # runs of up to three equal letters, either sign
            letters += [rng.choice((1, -1)) * rng.randint(1, n)] * rng.randint(1, 3)
        w = Word(letters[:length])
        s = magnus(w)
        expected = {u: c for u in monomials if (c := magnus_coefficient(w.letters, u))}
        assert s.unit == expected.get((), 0)
        for d in (1, 2, 3):
            assert s.component(d) == {u: c for u, c in expected.items() if len(u) == d}


def test_magnus_is_multiplicative():
    for k in range(500):
        rng = random.Random(k)
        u = random_word(rng, 4)
        v = random_word(rng, 4)
        assert magnus(u * v) == magnus(u) * magnus(v)


def test_magnus_inverse_cancels():
    for k in range(200):
        rng = random.Random(k)
        w = random_word(rng, 4)
        assert magnus(w) * magnus(w.inverse()) == TruncatedSeries.one()


def test_magnus_commutator_degree_two():
    s = magnus(commutator(Word.gen(1), Word.gen(2)))
    assert s.unit == 1
    assert s.component(1) == {}
    assert s.component(2) == {(1, 2): 1, (2, 1): -1}


def test_magnus_iterated_commutator_degree_three():
    s = magnus(commutator(Word.gen(1), commutator(Word.gen(2), Word.gen(3))))
    assert s.component(1) == {}
    assert s.component(2) == {}
    assert s.component(3) == {
        (1, 2, 3): 1,
        (1, 3, 2): -1,
        (2, 3, 1): -1,
        (3, 2, 1): 1,
    }


def test_truncated_series_ring_laws():
    for k in range(150):
        rng = random.Random(k)
        a, b, c = (magnus(random_word(rng, 3)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a


def test_truncated_series_validates_terms():
    with pytest.raises(ValueError):
        TruncatedSeries(0, {4: {(1, 1, 1, 1): 1}})
    with pytest.raises(ValueError):
        TruncatedSeries(0, {2: {(1,): 1}})


# -- Lyndon bases -------------------------------------------------------------


def test_witt_dimensions():
    assert witt_dimension(2, 2) == 1
    assert witt_dimension(2, 3) == 2
    assert witt_dimension(3, 3) == 8
    assert witt_dimension(7, 2) == 21
    assert witt_dimension(7, 3) == 112
    assert witt_dimension(12, 2) == 66
    assert witt_dimension(12, 3) == 572


def test_lie_basis_sizes_match_witt():
    for n in (2, 3, 5, 7):
        for k in (2, 3):
            assert len(lie_basis(n, k)) == witt_dimension(n, k)


def test_degree_two_lyndon_order_matches_wedge_index():
    for n in (3, 7, 12):
        idx = wedge_index(n)
        assert lyndon_words(n, 2) == sorted(idx, key=idx.get)


def test_degree_three_index_is_the_lyndon_order():
    for n in range(1, 14):
        idx = lyndon3_index(n)
        assert list(idx) == lyndon_words(n, 3)
        assert list(idx.values()) == list(range(len(idx)))
        assert len(idx) == witt_dimension(n, 3) == (n**3 - n) // 3


def bracketing_word(tree) -> Word:
    if isinstance(tree, int):
        return Word.gen(tree)
    return commutator(bracketing_word(tree[0]), bracketing_word(tree[1]))


def test_lie_coords_unit_on_standard_bracketings():
    for degree in (2, 3):
        basis = lie_basis(7, degree)
        for m, w in enumerate(basis.words):
            gw = bracketing_word(standard_bracketing(w))
            coords = lie_coords(magnus(gw), degree, 7)
            expected = tuple(1 if j == m else 0 for j in range(len(basis)))
            assert coords == expected


def test_lie_coords_rejects_lower_degree_terms():
    with pytest.raises(NotInGamma):
        lie_coords(magnus(Word.gen(1)), 2, 7)
    with pytest.raises(NotInGamma):
        lie_coords(magnus(commutator(Word.gen(1), Word.gen(2))), 3, 7)
    with pytest.raises(NotInGamma):
        lie_coords(TruncatedSeries(2), 2, 7)


def test_lie_component_coords_rejects_non_lie():
    with pytest.raises(NotLieElement):
        lie_component_coords({(1, 2): 1}, lie_basis(2, 2))
    with pytest.raises(NotLieElement):
        lie_component_coords({(1, 5): 1}, lie_basis(2, 2))


@settings(max_examples=200)
@given(st.data())
def test_lie_component_coords_recovers_combinations_and_rejects_a_monomial(data):
    n = data.draw(st.integers(2, 4))
    basis = lie_basis(n, 3)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    component = {}
    for c, expansion in zip(coeffs, basis.expansions):
        for u, cu in expansion.items():
            component[u] = component.get(u, 0) + c * cu
    assert lie_component_coords(component, basis) == tuple(coeffs)
    assert lie_sparse_coords(component, basis) == {k: c for k, c in enumerate(coeffs) if c}
    # a Lie element of degree >= 2 has coefficient sum 0, so one more monomial leaves the Lie span
    word = data.draw(st.tuples(*[st.integers(1, n)] * 3))
    component[word] = component.get(word, 0) + data.draw(st.integers(-3, 3).filter(bool))
    with pytest.raises(NotLieElement):
        lie_component_coords(component, basis)


# -- conjugator maps ----------------------------------------------------------


def test_gmap_defaults_and_flag_validation():
    config = maclane_c8()
    g = GMap(config)
    assert g.value(1, "p135") == Word.identity()
    with pytest.raises(ValueError):
        GMap(config, {(2, "p135"): Word.gen(1)})  # l2 misses p135
    with pytest.raises(ValueError):
        GMap(config, {(1, "nope"): Word.gen(1)})


def test_gmap_json_roundtrip():
    config = maclane_c8()
    for k in range(50):
        rng = random.Random(k)
        g = random_gmap(rng, config)
        assert GMap.from_json_dict(config, g.to_json_dict()) == g


def test_abelianize_exponent_sums():
    config = maclane_c8()
    g = GMap(config, {(4, "p45"): parse_word("w6^-1 w3^-1")})
    a = abelianize(g)
    assert a.value(4, "p45") == (0, 0, -1, 0, 0, -1, 0)
    assert a.value(5, "p45") == (0,) * 7
    assert abelianize(GMap(config)).is_zero()


def test_abelian_gmap_vector_roundtrip():
    config = maclane_c8()
    for k in range(50):
        rng = random.Random(k)
        a = abelianize(random_gmap(rng, config))
        b = AbelianGMap.from_vector(config, a.vector())
        assert b.vector() == a.vector() and (a - b).is_zero()


def test_abelianize_is_additive():
    config = maclane_c8()
    for k in range(50):
        rng = random.Random(k)
        g = random_gmap(rng, config)
        h = random_gmap(rng, config)
        prod = GMap(
            config,
            {
                (i, p): g.value(i, p) * h.value(i, p)
                for p in config.points
                if 0 not in config.lines_through(p)
                for i in config.lines_through(p)
            },
        )
        diff = abelianize(prod) - (abelianize(g) + abelianize(h))
        assert diff.is_zero()


@pytest.mark.parametrize("bad", [1.5, Fraction(7, 2), "3"], ids=["float", "fraction", "str"])
def test_abelian_gmap_refuses_entries_that_are_not_ints(bad):
    config = maclane_c8()
    where = r"at \(4,p45\), coordinate x3, is not an int"
    with pytest.raises(ValueError, match=where):
        AbelianGMap(config, {(4, "p45"): (0, 0, bad, 0, 0, 0, 0)})
    vec = [0] * (len(config.index.pairs) * 7)
    vec[config.index.pair_pos[(4, "p45")] * 7 + 2] = bad
    with pytest.raises(ValueError, match=where):
        AbelianGMap.from_vector(config, vec)


def test_abelian_gmap_compares_by_value():
    config = maclane_c8()
    p = abelianize(GMap(config, {(4, "p45"): parse_word("w6^-1 w3^-1")}))
    assert (p - p) == (p - p) == AbelianGMap(config)
    assert hash(p - p) == hash(AbelianGMap(config))
    q = AbelianGMap.from_vector(config, p.vector())
    assert p == q and hash(p) == hash(q)
    assert p != p - p and p != p + p
    assert AbelianGMap(config) != AbelianGMap(glue_c13())
    assert len({p, p - p, p + p - p, AbelianGMap(config)}) == 2


@pytest.fixture(scope="module", params=["c8", "asymmetric_9"])
def law_config(request):
    return maclane_c8() if request.param == "c8" else request.getfixturevalue("asymmetric_config")


@settings(max_examples=60, derandomize=True)
@given(st.data())
def test_abelian_gmap_laws(law_config, data):
    config = law_config
    idx = config.index
    n, flags = idx.n, idx.pairs
    block = st.one_of(st.just((0,) * n), st.tuples(*[st.integers(-3, 3)] * n))
    blocks_a, blocks_b = (data.draw(st.lists(block, min_size=len(flags), max_size=len(flags))) for _ in range(2))
    va, vb = ([x for blk in blocks for x in blk] for blocks in (blocks_a, blocks_b))
    a, b = AbelianGMap.from_vector(config, va), AbelianGMap.from_vector(config, vb)
    assert a.vector() == tuple(va) and b.vector() == tuple(vb)
    assert (a + b) - b == a
    assert dict(a.values) == {flag: blk for flag, blk in zip(flags, blocks_a) if any(blk)}
    assert AbelianGMap(config, a.values) == a
    with pytest.raises(TypeError):
        a.values[flags[0]] = (1,) * n  # a read-only view
    with pytest.raises(ValueError):
        AbelianGMap.from_vector(config, va + [0])
    with pytest.raises(ValueError):
        AbelianGMap(config, {flags[0]: (0,) * (n + 1)})
    non_flags = [(i, p) for i in range(len(config.lines)) for p in config.points if (i, p) not in idx.pair_pos]
    with pytest.raises(ValueError):
        AbelianGMap(config, {data.draw(st.sampled_from(non_flags)): (0,) * n})


# -- relators -----------------------------------------------------------------


def test_conjugated_generators_ascending():
    config = maclane_c8()
    g = GMap(config, {(1, "p135"): Word.gen(2)})
    ws = conjugated_generators(config, g, "p135")
    assert [i for i, _ in ws] == [1, 3, 5]
    assert ws[0][1] == Word.gen(1).conjugated(Word.gen(2))
    assert ws[1][1] == Word.gen(3)


def test_double_point_relator_is_commutator():
    config = maclane_c8()
    rels = relators_from_g(config, GMap(config))
    assert rels[(5, "p45")] == commutator(Word.gen(5), Word.gen(4))


def test_relators_match_flag_commutators():
    # both functions write [w(i_a), c_a]; the oracle is c_{a-1}^-1 c_a, cyclically, with
    # c_a = w(i_a) w(i_{a-1}) ... w(i_1) w(i_k) ... w(i_{a+1}) multiplied out word by word
    configs = [maclane_c8(), glue_c13()]
    for base, config in enumerate(configs):
        for k in range(5):
            rng = random.Random(100 * base + k)
            g = random_gmap(rng, config)
            rels = relators_from_g(config, g)
            for (i, p), r in rels.items():
                assert r == relator_at_flag(config, g, i, p)
            for p in config.index.p0:
                ws = conjugated_generators(config, g, p)
                cs = []
                for a in range(len(ws)):
                    c = Word()
                    for t in range(len(ws)):
                        c = c * ws[(a - t) % len(ws)][1]
                    cs.append(c)
                for a, (i, _) in enumerate(ws):
                    oracle = cs[a - 1].inverse() * cs[a]
                    assert relator_at_flag(config, g, i, p) == oracle
                    assert a == 0 or rels[(i, p)] == oracle


def test_relator_flags_cover_nonminimal_finite_flags():
    config = maclane_c8()
    rels = relators_from_g(config, GMap(config))
    expected = set()
    for p in config.points:
        lines = config.lines_through(p)
        if 0 in lines:
            continue
        expected.update((i, p) for i in lines[1:])
    assert set(rels) == expected
    assert len(rels) == 13


def test_relator_product_telescopes_to_identity():
    configs = [maclane_c8(), glue_c13()]
    for base, config in enumerate(configs):
        for k in range(5):
            rng = random.Random(200 * base + k)
            g = random_gmap(rng, config)
            rels = relators_from_g(config, g)
            for p in config.points:
                lines = config.lines_through(p)
                if 0 in lines:
                    continue
                prod = relator_at_flag(config, g, lines[0], p)
                for i in lines[1:]:
                    prod = prod * rels[(i, p)]
                assert prod.is_identity()


def test_relator_degree_two_class_ignores_g():
    config = maclane_c8()
    n = len(config.lines) - 1
    for k in range(20):
        rng = random.Random(k)
        g = random_gmap(rng, config)
        for (i, p), r in relators_from_g(config, g).items():
            assert lie_coords(magnus(r), 2, n) == rbar_coords(config, i, p)


def test_admissibility_check_accepts_and_rejects():
    config = maclane_c8()
    for k in range(10):
        rng = random.Random(k)
        rels = relators_from_g(config, random_gmap(rng, config))
        assert admissibility_check(config, rels)
        flag = sorted(rels)[rng.randrange(len(rels))]
        flipped = dict(rels)
        flipped[flag] = rels[flag].inverse()
        assert not admissibility_check(config, flipped)
        shallow = dict(rels)
        shallow[flag] = Word.gen(flag[0])
        assert not admissibility_check(config, shallow)


def test_relators_refuse_a_g_map_of_another_configuration():
    # a c8 g-map read against C13's lines gave 13 relators that C13's check accepted
    c8, c13 = maclane_c8(), glue_c13()
    g = GMap(c8, {(4, "p45"): Word.gen(3)})
    with pytest.raises(ValueError):
        relators_from_g(c13, g)
    with pytest.raises(ValueError):
        relator_at_flag(c13, g, 4, "p45")
    rels = relators_from_g(c8, g)
    assert len(rels) == 13 and admissibility_check(c8, rels)
    assert not admissibility_check(c13, rels)
    for flag in rels:
        assert not admissibility_check(c8, {f: r for f, r in rels.items() if f != flag})


def test_admissibility_on_asymmetric_config(asymmetric_config):
    config = asymmetric_config
    for k in range(5):
        rng = random.Random(k)
        g = random_gmap(rng, config)
        rels = relators_from_g(config, g)
        assert admissibility_check(config, rels)
        for (i, p), r in rels.items():
            assert r == relator_at_flag(config, g, i, p)
