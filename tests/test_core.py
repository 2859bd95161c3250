import random

import pytest

from eggbox.acceptance import COVER_GROUPS, PSI_GROUPS, PSI_POINTS
from eggbox.constructions import build_idempotent_cover, cover_modulus_bound
from eggbox.core import (
    FiniteGroup,
    FiniteMonoid,
    MonoidHom,
    canonical_section,
    closure,
    direct_power,
    generate_monoid,
    is_isomorphic,
    omega_power,
)
from eggbox.elements import (
    compose_transformations,
    make_rowmono_mul,
    make_table_mul,
    make_tuple_mul,
    table_element,
    transformation,
)
from eggbox.errors import (
    CapExceeded,
    InconsistentProduct,
    NotSurjective,
    NotWellDefined,
)
from eggbox.green import maximal_subgroup, minimal_ideal
from eggbox.groups import builtin_group, cyclic, symmetric
from eggbox.oracles import naive_omega_power
from eggbox.srank import normal_subgroups, quotient_group
from eggbox.wreath import constant_wreath


def full_transformation_monoid(n):
    gens = [transformation([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(transformation([(i + 1) % n for i in range(n)]))
    gens.append(transformation([0] + list(range(1, n - 1)) + [n - 2]))
    return generate_monoid(gens, compose_transformations, name=f"T{n}")


def test_generate_full_transformation_monoid_sizes():
    # |T_n| = n^n
    assert len(full_transformation_monoid(2).elements) == 4
    assert len(full_transformation_monoid(3).elements) == 27
    assert len(full_transformation_monoid(4).elements) == 256


def test_generate_monoid_words_reproduce_elements():
    m = full_transformation_monoid(3)
    for x in m.elements:
        assert m.eval_word(m.words[x]) == x


def test_generate_monoid_cap():
    gens = [
        transformation([1, 0, 2, 3]),
        transformation([1, 2, 3, 0]),
        transformation([0, 1, 2, 2]),
    ]
    with pytest.raises(CapExceeded) as exc:
        generate_monoid(gens, compose_transformations, cap=100)
    assert exc.value.reached > exc.value.cap == 100


def test_generate_monoid_keeps_duplicate_seeds():
    swap = transformation([1, 0])
    m = generate_monoid([swap, swap], compose_transformations)
    assert len(m.elements) == 2
    assert len(m.generators) == 2  # duplicates are part of the interface


def test_generate_monoid_needs_the_identity_to_fix_every_seed():
    # element 1 of this table is its identity and element 0 a zero; from the
    # zero as identity the seed is never reached
    mul = make_table_mul([[0, 0], [0, 1]], "z")
    with pytest.raises(InconsistentProduct):
        generate_monoid([table_element("z", 1)], mul, identity=table_element("z", 0))


def test_generate_monoid_rejects_one_wrong_product_of_a_large_closure():
    # T4 has 256 elements; the plain callable below is composition except on
    # one pair of non-generators, so closure and Green never meet it and
    # only the exact associativity test can
    seeds = [transformation(t) for t in ((1, 0, 2, 3), (1, 2, 3, 0), (0, 0, 2, 3))]
    p, q = transformation([0, 1, 3, 1]), transformation([3, 2, 2, 0])
    wrong = transformation([0, 0, 1, 2])
    assert compose_transformations(p, q) != wrong

    def rule(a, b):
        return wrong if (a == p and b == q) else compose_transformations(a, b)

    assert len(generate_monoid(seeds, compose_transformations)) == 256
    with pytest.raises(InconsistentProduct, match="associativity fails"):
        generate_monoid(seeds, rule)


def test_a_table_rule_is_certified_by_a_closure_over_its_whole_table():
    # Z4 under addition: the closure of 2 is {0, 2}, half the table
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    mul = make_table_mul(table, "z4")
    zero = table_element("z4", 0)
    assert mul.associative is False
    generate_monoid([table_element("z4", 2)], mul, identity=zero)
    assert mul.associative is False
    bad_table = [row[:] for row in table]
    bad_table[1][2] = 0  # 1 + 2 = 0 breaks (1 + 2) + 1 = 1 + (2 + 1)
    bad = make_table_mul(bad_table, "z4")
    with pytest.raises(InconsistentProduct):
        generate_monoid([table_element("z4", 1)], bad, identity=zero)
    assert bad.associative is False
    m = generate_monoid([table_element("z4", 1)], mul, identity=zero)
    assert len(m) == 4 and mul.associative is True


def test_product_rules_inherit_the_certificate_of_their_parts():
    table = make_table_mul([[0, 1], [1, 0]], "z2")
    assert compose_transformations.associative is True
    assert make_rowmono_mul(compose_transformations).associative is True
    assert make_rowmono_mul(make_rowmono_mul(compose_transformations)).associative is True
    assert make_rowmono_mul(table).associative is False
    assert make_rowmono_mul(lambda v, w: v).associative is False
    assert make_tuple_mul((compose_transformations, compose_transformations)).associative is True
    assert make_tuple_mul((compose_transformations, table)).associative is False
    generate_monoid([table_element("z2", 1)], table, identity=table_element("z2", 0))
    assert make_rowmono_mul(table).associative is True
    assert make_tuple_mul((compose_transformations, table)).associative is True


def test_closure_levels_do_not_depend_on_generator_order():
    g = symmetric(3)
    gens = list(g.elements[1:])
    levels, words = closure([g.identity], gens, g.mul)
    again, _ = closure([g.identity], gens[::-1], g.mul)
    assert levels == again
    assert [len(level) for level in levels] == [1, 5]
    for level in levels:
        assert level == sorted(level)
    for x, word in words.items():
        acc = g.identity
        for gi in word:
            acc = g.mul(acc, gens[gi])
        assert acc == x
    with pytest.raises(CapExceeded):
        closure([g.identity], gens, g.mul, cap=5)


def plain_walk(m):
    """Oracle: M's element keys, witness words and both Cayley graphs from
    the plain breadth-first walk, with every edge multiplied out."""
    levels, words = closure([m.identity], m.generators, m.mul)
    elements = [x for level in levels for x in level]
    at = {x: i for i, x in enumerate(elements)}
    right = [[at[m.mul(x, a)] for a in m.generators] for x in elements]
    left = [[at[m.mul(a, x)] for a in m.generators] for x in elements]
    return [x.key for x in elements], words, right, left


def table_monoid(m, extra=0):
    """M as a multiplication table over M's indices, an uncertified rule,
    with ``extra`` zeros adjoined past M: (table, seeds, identity)."""
    n = len(m)
    table = [[m.index[m.mul(x, y)] for y in m.elements] + [n] * extra for x in m.elements]
    table += [[n] * (n + extra) for _ in range(extra)]
    seeds = [table_element("t", m.index[g]) for g in m.generators]
    return table, seeds, table_element("t", 0)


def random_transformation_monoids(count, seed):
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        d = rnd.randint(2, 5)
        seeds = [transformation([rnd.randrange(d) for _ in range(d)]) for _ in range(rnd.randint(1, 3))]
        try:
            out.append(generate_monoid(seeds, compose_transformations, cap=400))
        except CapExceeded:
            pass
    return out


def test_enumeration_matches_the_plain_walk():
    t4 = full_transformation_monoid(4)
    table, seeds, one = table_monoid(full_transformation_monoid(3))
    monoids = [t4, generate_monoid(seeds, make_table_mul(table, "t"), identity=one)]
    for name in COVER_GROUPS:
        h = builtin_group(name)
        monoids.append(build_idempotent_cover(h, cover_modulus_bound(h)).monoid)
    monoids.append(build_idempotent_cover(builtin_group("S3"), 23, mode="full").monoid)
    for name in PSI_GROUPS:
        monoids += [constant_wreath(builtin_group(name), b).monoid for b in PSI_POINTS]
    assert len(monoids) == 2 + 5 + 1 + 18
    assert sum(map(len, monoids)) == 256 + 27 + 511 + 3197 + 1336
    monoids += random_transformation_monoids(200, seed=14)
    for m in monoids:
        assert ([x.key for x in m.elements], m.words, m.right, m.left) == plain_walk(m)


def test_a_wrong_deduced_edge_is_rejected():
    # the right edges of T4 that the enumeration deduces rather than
    # multiplies, found by recording the products of a certified rule
    t4 = full_transformation_monoid(4)
    multiplied = set()

    def recording(x, y):
        multiplied.add((x, y))
        return compose_transformations(x, y)

    recording.associative = True
    generate_monoid(t4.generators, recording)
    deduced = [(i, t) for i, x in enumerate(t4.elements)
               for t, a in enumerate(t4.generators) if (x, a) not in multiplied]
    assert len(deduced) == 366
    # a table with a zero adjoined, so that a wrong entry can name an
    # element inside the closure or one outside it
    for i, t in (deduced[0], deduced[-1]):
        a = t4.index[t4.generators[t]]
        for wrong in ((t4.right[i][t] + 1) % len(t4), len(t4)):
            table, seeds, one = table_monoid(t4, extra=1)
            table[i][a] = wrong
            with pytest.raises(InconsistentProduct):
                generate_monoid(seeds, make_table_mul(table, "t"), identity=one)


def cap_exceeded(walk):
    """(cap, count) of the CapExceeded that ``walk()`` raises, or None."""
    try:
        walk()
    except CapExceeded as exc:
        return exc.cap, exc.reached
    return None


def test_cap_exceeded_matches_the_plain_walk():
    m = build_idempotent_cover(builtin_group("C3"), 6).monoid
    levels, _ = closure([m.identity], m.generators, m.mul)
    boundaries = [sum(map(len, levels[:k])) for k in range(1, len(levels) + 1)]
    assert boundaries[-1] == len(m) == 114
    for cap in sorted({b + d for b in boundaries for d in (-1, 0)}):
        expected = cap_exceeded(lambda: closure([m.identity], m.generators, m.mul, cap=cap))
        assert (expected is None) == (cap >= len(m))
        assert cap_exceeded(lambda: generate_monoid(m.generators, m.mul, cap=cap, identity=m.identity)) == expected


def test_group_from_monoid_rejects_non_group():
    m = generate_monoid(
        [transformation([0, 0])], compose_transformations
    )
    with pytest.raises(InconsistentProduct):
        FiniteGroup.from_monoid(m)


def test_hom_from_generator_images_validates():
    c4 = builtin_group("C4")
    c2 = builtin_group("C2")
    good = MonoidHom.from_generator_images(c4, c2, [c2.generators[0]])
    assert good.is_surjective()
    assert len(good.kernel()) == 2
    c3 = builtin_group("C3")
    with pytest.raises(NotWellDefined):
        # g has order 4, image would need order dividing 4 in C3
        MonoidHom.from_generator_images(c4, c3, [c3.generators[0]])


def test_hom_from_generator_images_takes_one_product_per_element_and_edge():
    m = generate_monoid([transformation(t) for t in ((1, 0, 2, 3), (1, 2, 3, 0), (0, 0, 2, 3))],
                        compose_transformations, name="T4")
    count = [0]

    def counting(p, q):
        count[0] += 1
        return m.mul(p, q)

    target = FiniteMonoid("T4", m.elements, counting, m.identity, m.generators, m.words, m.right)
    assert MonoidHom.from_generator_images(m, target, m.generators).is_surjective()
    # one product per element past the identity extends the images along
    # the witness words, one per right Cayley edge validates the map; a
    # fold of every whole word took 2,304
    assert count[0] <= (len(m) - 1) + len(m) * len(m.generators)


def test_hom_from_generator_images_rejects_a_doubled_generator_with_two_images():
    # the doubled-swap monoid lists the swap twice; the swap's witness word
    # fixes its image, so the second listing cannot send it to 1
    swap = transformation([1, 0])
    m = generate_monoid([swap, swap], compose_transformations, name="doubled-swap")
    assert MonoidHom.from_generator_images(m, m, [swap, swap]).is_surjective()
    with pytest.raises(NotWellDefined):
        MonoidHom.from_generator_images(m, m, [swap, m.identity])


def test_a_group_is_its_own_monoid():
    # from_monoid shares every field of the monoid and adds the Cayley table
    # with the inverses and orders read off it
    m = generate_monoid([transformation([1, 2, 0])], compose_transformations, name="C3")
    g = FiniteGroup.from_monoid(m)
    assert isinstance(g, FiniteMonoid)
    assert FiniteGroup.__slots__ == ("table", "_inverse", "_orders")
    assert all(getattr(g, slot) is getattr(m, slot) for slot in FiniteMonoid.__slots__)
    assert len(g) == 3 and m.generators[0] in g
    assert g.inverse(g.generators[0]) == g.elements[-1]
    assert g.order_profile() == (1, 3, 3)


def test_hom_then_composes():
    c4 = builtin_group("C4")
    c2 = builtin_group("C2")
    triv = builtin_group("1")
    a = MonoidHom.from_generator_images(c4, c2, [c2.generators[0]])
    b = MonoidHom.from_generator_images(c2, triv, [triv.identity])
    ab = a.then(b)
    assert all(ab(x) == triv.identity for x in c4.elements)


def test_canonical_section_picks_least_preimages():
    c4 = builtin_group("C4")
    c2 = builtin_group("C2")
    alpha = MonoidHom.from_generator_images(c4, c2, [c2.generators[0]])
    sec = canonical_section(alpha)
    assert sec[c2.identity] == c4.identity
    for k in c2.elements:
        assert alpha(sec[k]) == k
    with pytest.raises(NotSurjective):
        canonical_section(
            MonoidHom.from_generator_images(
                builtin_group("1"), c2, [c2.identity]
            )
        )


def test_is_isomorphic_positive_and_negative():
    assert is_isomorphic(builtin_group("C2xC2"), builtin_group("C2xC2")) is not None
    assert is_isomorphic(builtin_group("C4"), builtin_group("C2xC2")) is None
    assert is_isomorphic(symmetric(3), builtin_group("S3")) is not None
    assert is_isomorphic(symmetric(3), cyclic(6)) is None
    # equal order profiles, so only the backtracking can tell these apart
    c4c4, q8c2 = builtin_group("C4xC4"), builtin_group("Q8xC2")
    assert c4c4.order_profile() == q8c2.order_profile()
    assert is_isomorphic(c4c4, q8c2) is None


def _cover_group():
    m = build_idempotent_cover(builtin_group("S3"), 11, mode="full").monoid
    ideal = minimal_ideal(m)
    return maximal_subgroup(m, ideal.idempotents[0], ideal=ideal)


def test_group_table_matches_element_products():
    # all-pairs oracle: the table, inverses and orders against g.mul
    groups = [builtin_group(name) for name in ("S3", "Q8", "C2xC2xC2xC2", "A5")]
    s4 = builtin_group("S4")
    v4 = next(n for n in normal_subgroups(s4) if len(n) == 4)
    groups += [quotient_group(s4, v4)[0], _cover_group()]
    for g in groups:
        mul, at, one = g.mul, g.index, g.identity
        assert len(g.table) == len(g) and g.elements[0] == one, g.name
        for x, row in zip(g.elements, g.table):
            assert list(row) == [at[mul(x, y)] for y in g.elements], g.name
            xi = g.inverse(x)
            assert mul(x, xi) == one == mul(xi, x), g.name
            k, p = 1, x
            while p != one:
                p = mul(p, x)
                k += 1
            assert g.order_of(x) == k, g.name


def test_direct_power_sizes():
    c2 = builtin_group("C2")
    assert len(direct_power(c2, 0).elements) == 1
    assert len(direct_power(c2, 3).elements) == 8


def test_omega_power_matches_naive():
    m = full_transformation_monoid(3)
    for x in m.elements:
        w = omega_power(m, x)
        assert m.mul(w, w) == w
        assert w == naive_omega_power(m, x)
